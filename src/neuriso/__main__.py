from neuriso.cli import main
main()
